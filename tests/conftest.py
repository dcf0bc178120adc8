"""Shared helpers: independent oracles and deterministic sampling, and a
per-test time limit."""

import signal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from tropdeg import linalg
from tropdeg import cycles as cyc
from tropdeg.cycles import (BlockStructure, TropicalCycle, WeightedFacet,
                            degree0, translate)
from tropdeg.errors import (DimensionMismatchError, InputError, InvariantError,
                            SeedDependenceError)
from tropdeg.linalg import (IntVec, int_row, integral_row, is_zero_vec,
                            lattice_index, primitive, rref, saturate, snf, vdot,
                            vsub)
from tropdeg.multidegree import DivisorSet, pullback
from tropdeg.ops import (PushforwardResult, Rng, derived_seed,
                         pushforward_linear, stable_intersect)
from tropdeg.polyhedra import (Polyhedron, _canon_eqs, _canon_generators,
                               _canon_ineqs, _check_len, _point_row,
                               dual_description, homogenized_constraints,
                               refine_by_hyperplanes)

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "fixtures"

#: seconds a test may run, set-up and tear-down included: about 20 times
#: the slowest one, so a hang (say, a refinement that never settles)
#: fails its test instead of stalling the suite
TEST_TIME_LIMIT_S = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Fail a test with TimeoutError once it runs past TEST_TIME_LIMIT_S;
    no limit where SIGALRM is missing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran longer than {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.cyc"


def transverse_degree_oracle(c1: TropicalCycle, c2: TropicalCycle) -> int:
    """Independent intersection count for cycles in transverse position.

    Sums weight products times lattice indices over facet pairs meeting in
    a single point; no displacement, no refinement.  Raises if any meeting
    is not a transverse point, so it cannot silently cover other cases.
    """
    m = c1.m
    assert c1.dim + c2.dim == m
    total = 0
    for f1 in c1.support_facets:
        for f2 in c2.support_facets:
            inter = f1.poly.intersect(f2.poly)
            if inter.is_empty:
                continue
            assert inter.dim == 0, "oracle requires transverse position"
            dirs = f1.poly.direction_basis() + f2.poly.direction_basis()
            assert linalg.rank(dirs) == m, "oracle requires transverse position"
            total += f1.weight * f2.weight * linalg.lattice_index(dirs, m)
    return total


def iterated_multidegree(cycle: TropicalCycle, n, divs=None, seed=0) -> int:
    """Multidegree as a chain of |n| stable intersections in R^m.

    Cuts the cycle by n_i pullbacks of block i's divisor, each translated
    by a fresh generic vector, and repeats the chain under a second seed.
    This is the definition that the one-intersection ``multidegree``
    replaces; it is kept as a differential oracle.
    """
    if divs is None:
        divs = DivisorSet.standard(cycle.ambient)
    value = _iterated_once(cycle, n, divs, seed)
    again = _iterated_once(cycle, n, divs, derived_seed(seed, 211))
    if value != again:
        raise SeedDependenceError(
            f"multidegree differs across translation seeds: {value} vs {again}")
    return value


def _iterated_once(cycle, n, divs, seed) -> int:
    blocks = cycle.ambient
    rng = Rng(seed)
    cur = cycle
    for i in range(1, blocks.k + 1):
        b = blocks.blocks[i - 1]
        for _ in range(n[i - 1]):
            shift = rng.vector(b)
            lam = translate(divs.divisors[i - 1], shift)
            pb = pullback(lam, i, blocks)
            cur = stable_intersect(cur, pb,
                                   seed=derived_seed(seed, rng.randint(1, 1 << 30)))
            if cur.is_empty:
                return 0
    return degree0(cur)


def fraction_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns).

    The textbook Fraction elimination that ``linalg.rref`` replaced; kept
    as a differential oracle for the fraction-free kernel.
    """
    mat = [[Fraction(e) for e in r] for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def fraction_reduce_mod(echelon_rows, vec) -> tuple:
    """Exact residual of ``vec`` modulo the span of ``rref`` output rows.

    The Fraction loop that the fraction-free ``linalg.reduce_mod``
    replaced; kept as a differential oracle.
    """
    out = [Fraction(x) for x in vec]
    for row in echelon_rows:
        p = next(i for i, x in enumerate(row) if x != 0)
        if out[p] != 0:
            f = out[p] / row[p]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


def coords_in_rows(basis_rows, target):
    """Coefficients c with sum_i c[i]*basis_rows[i] == target, or None.

    Free coefficients (for linearly dependent bases) are set to zero.
    """
    n = len(basis_rows)
    if n == 0:
        return () if is_zero_vec(target) else None
    aug = [[row[i] for row in basis_rows] + [t] for i, t in enumerate(target)]
    red, piv = rref(aug)
    coords = [Fraction(0)] * n
    for row, p in zip(red, piv):
        if p == n:
            return None
        coords[p] = Fraction(row[n], row[p])
    return tuple(coords)


def relative_lattice_index(ambient_basis, sub_gens):
    """Index of the lattice generated by sub_gens inside the lattice with the
    given basis (both living in a common Z^m); INFINITE if ranks differ.

    The per-piece weight rule that ``ops._image_cycle`` replaced with one
    Smith normal form per image; kept as a differential oracle.
    """
    k = len(ambient_basis)
    coords = []
    for g in sub_gens:
        c = coords_in_rows(ambient_basis, g)
        if c is None:
            raise InvariantError("generator outside the ambient lattice span")
        if any(x.denominator != 1 for x in c):
            raise InvariantError("generator not in the ambient lattice")
        coords.append(c)
    return lattice_index(coords, k)


def frac_det(rows) -> Fraction:
    """Determinant of a square rational matrix (fraction-free enough at desk scale)."""
    mat = [[Fraction(e) for e in r] for r in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def displaced_oracle(f: Polyhedron, g: Polyhedron, v):
    """Whether f meets g + eps*v for arbitrarily small eps > 0, and the
    dimension of the joint (x, eps) polyhedron.

    The joint polyhedron in (x, eps) is built and canonicalized with
    ``from_hrep`` and the answer read off its V-rep.  Kept as the
    differential oracle of the cone step of ``ops.stable_intersect``, whose
    flag is ``v in T_x(f) - T_x(g)``; a counted candidate pair meets in a
    joint polyhedron of dimension ``dim f + dim g - m + 1``.
    """
    rows = [r + (0,) for r in f.ineqs]
    eqs = [r + (0,) for r in f.eqs]
    for r in g.ineqs:
        rows.append(r + (-sum(c * x for c, x in zip(r[1:], v)),))
    for r in g.eqs:
        eqs.append(r + (-sum(c * x for c, x in zip(r[1:], v)),))
    q = Polyhedron.from_hrep(f.m + 1, ineqs=rows, eqs=eqs)
    eps = f.m   # index of the eps coordinate
    if q.is_empty:
        return False, -1
    nonempty = (any(vert[eps] > 0 for vert in q.vertices)
                or any(ray[eps] > 0 for ray in q.rays)
                or any(l[eps] != 0 for l in q.lineality))
    return nonempty, q.dim


def low_face_spans(meeting, m: int):
    """Canonical bases of the proper subspaces Lin(F)+Lin(F') over the face
    pairs (F, F') of the meeting facet pairs (P, Q).

    Staying outside them is a genericity condition that the displacement
    step does not need; kept to draw vectors that violate it.
    """
    seen_pairs = set()
    spans: dict = {}
    for p, q in meeting:
        for fa in p.all_faces():
            for fb in q.all_faces():
                key = (fa.key, fb.key)
                if key in seen_pairs:
                    continue
                seen_pairs.add(key)
                red, _ = rref(fa.direction_basis() + fb.direction_basis())
                if len(red) < m:
                    spans.setdefault(tuple(red))
    return list(spans)


def face_oracle(p: Polyhedron, row) -> Polyhedron:
    """The face of p where ``row`` is tight, by a fresh H->V conversion."""
    return Polyhedron.from_hrep(p.m, p.ineqs, p.eqs + (row,))


def two_pass_from_hrep(m: int, ineqs=(), eqs=()) -> Polyhedron:
    """``Polyhedron.from_hrep`` by two conversions: H->V, then V->H again
    for a canonical H-rep.

    The construction that the one-conversion ``from_hrep`` replaced with
    incidence sign tests; kept as a differential oracle.  The result is
    not interned.
    """
    ineq_rows, eq_rows = [], []
    for row in ineqs:
        r = _check_len(int_row(row), m + 1, "constraint row")
        if is_zero_vec(r[1:]):
            if r[0] < 0:
                return Polyhedron.empty(m)
            continue
        ineq_rows.append(r)
    for row in eqs:
        r = _check_len(int_row(row), m + 1, "constraint row")
        if is_zero_vec(r[1:]):
            if r[0] != 0:
                return Polyhedron.empty(m)
            continue
        eq_rows.append(r)
    gen_rays, gen_lin = dual_description(
        m + 1, homogenized_constraints(m, ineq_rows, eq_rows))
    return _two_pass_cone_output(m, gen_rays, gen_lin)


def two_pass_from_generators(m: int, vertices=(), rays=(), lineality=()) -> Polyhedron:
    """``Polyhedron.from_generators`` by two conversions: V->H, then H->V
    again for irredundant generators; kept as a differential oracle."""
    rows = [_point_row(v, m, "vertex") for v in vertices]
    if not rows:
        return Polyhedron.empty(m)
    ray_vecs = [primitive(r) for r in rays if not is_zero_vec(r)]
    lin_vecs = [primitive(l) for l in lineality if not is_zero_vec(l)]
    ineqs, eqs = _two_pass_hrep(m, *_canon_generators(rows, ray_vecs, lin_vecs))
    gen_rays, gen_lin = dual_description(
        m + 1, homogenized_constraints(m, ineqs, eqs))
    poly = _two_pass_cone_output(m, gen_rays, gen_lin, hrep=(ineqs, eqs))
    assert not poly.is_empty
    return poly


def _two_pass_cone_output(m, gen_rays, gen_lin, hrep=None) -> Polyhedron:
    assert all(r[0] >= 0 for r in gen_rays) and all(l[0] == 0 for l in gen_lin)
    verts = [r for r in gen_rays if r[0] > 0]
    if not verts:
        return Polyhedron.empty(m)
    vert_rows, rays_c, lin_c = _canon_generators(
        verts, [r[1:] for r in gen_rays if r[0] == 0], [l[1:] for l in gen_lin])
    ineqs, eqs = hrep or _two_pass_hrep(m, vert_rows, rays_c, lin_c)
    return Polyhedron(m=m, eqs=eqs, ineqs=ineqs, vertex_rows=vert_rows,
                      rays=rays_c, lineality=lin_c, is_empty=False)


def _two_pass_hrep(m, vert_rows, rays, lineality):
    constraints = [((0,) + tuple(l), True) for l in lineality]
    constraints += [(g, False) for g in vert_rows]
    constraints += [((0,) + tuple(r), False) for r in rays]
    dual_rays, dual_lin = dual_description(m + 1, constraints)
    eqs = _canon_eqs([row for row in dual_lin if not is_zero_vec(row[1:])])
    ineqs = _canon_ineqs([row for row in dual_rays if not is_zero_vec(row[1:])], eqs)
    return ineqs, eqs


def same_polyhedron(got: Polyhedron, want: Polyhedron) -> bool:
    """Equal keys and equal stored generators."""
    return ((got.key, got.vertex_rows, got.rays, got.lineality)
            == (want.key, want.vertex_rows, want.rays, want.lineality))


def transverse_check(c1: TropicalCycle, c2: TropicalCycle) -> bool:
    """Direction spaces span the ambient space at every overlap point of
    two faces of the supports, each met in its relative interior.

    Retired from ``tropdeg.ops``, which never called it; kept as a test
    helper.
    """
    if c1.m != c2.m:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {c1.m} vs {c2.m}")
    m = c1.m
    faces1 = _support_faces(c1)
    faces2 = _support_faces(c2)
    for fa in faces1:
        for fb in faces2:
            inter = fa.intersect(fb)
            if inter.is_empty:
                continue
            row = inter.interior_row()
            if fa.relint_contains_row(row) and fb.relint_contains_row(row):
                if len(rref(fa.direction_basis() + fb.direction_basis())[0]) != m:
                    return False
    return True


def _support_faces(cycle: TropicalCycle):
    seen: dict = {}
    for f in cycle.support_facets:
        for face in f.poly.all_faces():
            seen.setdefault(face.key, face)
    return list(seen.values())


def refine_against(cycle: TropicalCycle, hyperplanes) -> TropicalCycle:
    """Subdivide every facet by linear hyperplanes (integer covectors).

    Retired from ``tropdeg.cycles``, which never called it; kept as a test
    helper.
    """
    rows = []
    for h in hyperplanes:
        h = integral_row(h, InputError, "covector")
        if len(h) != cycle.m:
            raise DimensionMismatchError(
                f"covector of length {len(h)} in R^{cycle.m}")
        rows.append((0,) + h)
    facets = []
    for f in cycle.facets:
        for piece in refine_by_hyperplanes(f.poly, rows):
            facets.append(WeightedFacet(piece, f.weight))
    return TropicalCycle(cycle.ambient, facets)


def minkowski_oracle(cycle: TropicalCycle, span_gens) -> PushforwardResult:
    """Minkowski sum with the span of ``span_gens``, through the product.

    The push-forward of ``cycle x W`` along ``(x, y) -> x + y``, where W is
    the span as an unchecked one-facet cycle, so the product carries no
    marks and the push-forward validates and balance-checks it in full.
    ``ops.minkowski_sum_subspace`` replaced this route with facet sums
    built in R^m; kept as a differential oracle.
    """
    cyc.require_balanced(cycle)
    m = cycle.m
    basis = saturate(span_gens, m)
    if not basis:
        return PushforwardResult(cycle, None)
    subspace = Polyhedron.from_generators(m, vertices=[(0,) * m],
                                          lineality=basis)
    w = TropicalCycle(BlockStructure((m,)), [WeightedFacet(subspace, 1)])
    prod = cyc.product(cycle, w)
    sum_map = [tuple(1 if (j == i or j == m + i) else 0 for j in range(2 * m))
               for i in range(m)]
    return pushforward_linear(prod, sum_map, cycle.ambient)


def linear_image_oracle(p: Polyhedron, matrix, m_out: int) -> Polyhedron:
    """Image of p under x -> matrix @ x with a dense dot product per row.

    The apply that ``Polyhedron.linear_image`` replaced with a sparse one;
    kept as a differential oracle.
    """
    if p.is_empty:
        return Polyhedron.empty(m_out)
    apply = lambda x: tuple(vdot(row, x) for row in matrix)
    verts = [apply(v) for v in p.vertices]
    rays = [r2 for r2 in (apply(r) for r in p.rays) if not is_zero_vec(r2)]
    lin = [l2 for l2 in (apply(l) for l in p.lineality) if not is_zero_vec(l2)]
    return Polyhedron.from_generators(m_out, verts, rays, lin)


def eval_row(row, point) -> Fraction:
    """c0 + c . x at a point."""
    return row[0] + sum(c * x for c, x in zip(row[1:], point, strict=True))


def contains_oracle(p: Polyhedron, point, relint: bool = False) -> bool:
    """Membership of a rational point by evaluating every constraint row.

    The ``Fraction`` test that ``Polyhedron.contains`` and
    ``relint_contains`` replaced with integer sign tests on the point's
    row; kept as a differential oracle.
    """
    if p.is_empty:
        return False
    return (all(eval_row(r, point) == 0 for r in p.eqs)
            and all(eval_row(r, point) > 0 if relint else eval_row(r, point) >= 0
                    for r in p.ineqs))


def row_times_mat(x, mat):
    """x @ mat for a row vector x."""
    n = len(mat[0]) if mat else 0
    return tuple(sum(x[i] * mat[i][j] for i in range(len(x))) for j in range(n))


def int_inverse(mat) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix, as integers."""
    n = len(mat)
    aug = [list(mat[i]) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    red, piv = rref(aug)
    if piv != list(range(n)):
        raise InvariantError("matrix is singular")
    # row i is the primitive multiple of (e_i | inverse row i); the inverse
    # is integral exactly when every pivot is 1
    if any(row[i] != 1 for i, row in enumerate(red)):
        raise InvariantError("matrix is not unimodular")
    return [list(row[n:]) for row in red]


class QuotientLattice:
    """Coordinates on Z^m / L for a saturated sublattice L (torsion-free quotient)."""

    def __init__(self, sat_basis, m: int):
        self.m = m
        self.k = len(sat_basis)
        if self.k == 0:
            self._V = None
            self._Vinv = None
            return
        D, _, V = snf(sat_basis)
        diag = [D[i][i] for i in range(min(len(D), m))]
        if any(d != 1 for d in diag[: self.k]):
            raise InvariantError("basis does not generate a saturated lattice")
        self._V = V
        self._Vinv = int_inverse(V)

    def project(self, x):
        """Image of x in the quotient, as a vector of length m - k."""
        if self.k == 0:
            return tuple(x)
        y = row_times_mat(x, self._V)
        return tuple(y[self.k:])

    def lift(self, w) -> IntVec:
        """An integer vector of Z^m mapping to w in the quotient."""
        if self.k == 0:
            return tuple(int(e) for e in w)
        full = (0,) * self.k + tuple(w)
        return tuple(int(e) for e in row_times_mat(full, self._Vinv))


def quotient_normal_oracle(p: Polyhedron, q: Polyhedron):
    """The normal of a facet p at its face q through Z^m / L_Q.

    Projects the difference of two relative interior points to the
    quotient, takes the primitive vector on its ray and lifts it.  This
    is the route that ``cycles.codim1_faces`` replaced with an xgcd fold
    over L_P; kept as a differential oracle.
    """
    quotient = QuotientLattice(q.direction_basis(), p.m)
    u = vsub(p.relative_interior_point(), q.relative_interior_point())
    image = primitive(quotient.project(u))
    return quotient.lift(image)


def min_attained_twice(coeffs, point) -> bool:
    """Membership oracle for the hyperplane locus, straight from the definition."""
    vals = [Fraction(coeffs[0])]
    vals += [Fraction(c) + Fraction(x) for c, x in zip(coeffs[1:], point)]
    low = min(vals)
    return sum(1 for v in vals if v == low) >= 2


def cycle_contains(cycle: TropicalCycle, point) -> bool:
    return any(f.poly.contains(point) for f in cycle.support_facets)


def coordinate_subspaces(m: int):
    """(coordinates, unit vectors) of every proper nonzero coordinate subspace."""
    for size in range(1, m):
        for coords in combinations(range(m), size):
            yield coords, [tuple(int(t == j) for t in range(m)) for j in coords]


def seeded_points(seed: int, count: int, m: int, num_bound: int = 40,
                  den_bound: int = 7):
    rng = Rng(seed)
    return [rng.vector(m, num_bound=num_bound, den_bound=den_bound)
            for _ in range(count)]


def fresh(cycle: TropicalCycle) -> TropicalCycle:
    """Same cycle, new object: drops memoized validation verdicts."""
    return TropicalCycle(cycle.ambient, cycle.facets)


def uninterned(build):
    """Build with an empty intern pool, so the result is a fresh instance."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_interned", {})
        return build()


@pytest.fixture
def rng():
    return Rng(20240817)
