"""Shared helpers: independent oracles and deterministic sampling, and a
per-test time limit."""

import json
import signal
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from tropdeg import cycfile, fixtures, linalg
from tropdeg import cycles as cyc
from tropdeg.cycles import (BlockStructure, TropicalCycle, WeightedFacet,
                            degree0, translate)
from tropdeg.errors import (DimensionMismatchError, InputError, InvariantError,
                            SeedDependenceError)
from tropdeg.linalg import (IntVec, int_row, integral_row, is_zero_vec,
                            lattice_index, primitive, rref, saturate,
                            sign_normalized, snf, vdot, vneg, vsub)
from tropdeg.multidegree import DivisorSet, pullback
from tropdeg.ops import (_MASK64, _SEED_STRIDE, PushforwardResult, Rng,
                         _check_seed, _towards, pushforward_linear,
                         stable_intersect, tropical_hyperplane)
from tropdeg.polyhedra import (Polyhedron, _canon_eqs, _canon_generators,
                               _canon_ineqs, _canonical, _check_len, _point_row,
                               dual_description)

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


def cycle_to_dict(cycle: TropicalCycle) -> dict:
    """The JSON object of a cycle's file."""
    return {"blocks": list(cycle.ambient.blocks),
            "facets": [cycfile.facet_to_dict(f) for f in cycle.facets]}


def dumps_oracle(cycle: TropicalCycle) -> str:
    """A cycle's file text through ``json``'s indent encoder, the layout
    ``cycfile.dumps`` writes directly."""
    return json.dumps(cycle_to_dict(cycle), indent=1, sort_keys=True) + "\n"


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


def derived_seed(seed: int, salt: int) -> int:
    """The seed of a second splitmix64 stream, one per salt.

    Retired from ``tropdeg.ops`` once stable intersections stopped drawing
    from a second stream; kept for the second seed of
    ``iterated_multidegree``.
    """
    return (_check_seed(seed) + salt * _SEED_STRIDE) & _MASK64


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


def chain_power(divisor: TropicalCycle, n: int) -> TropicalCycle:
    """Lambda^n as a chain of stable self-intersections: R^b for n = 0,
    Lambda for n = 1, and Lambda cut by Lambda n - 1 times.

    The construction that ``divisor_power`` keeps for other divisors and
    replaces by a closed form for the standard hyperplane; written out
    here, with nothing memoized, as that closed form's oracle.
    """
    if n == 0:
        power = TropicalCycle(BlockStructure((divisor.m,)),
                              [WeightedFacet(Polyhedron.full_space(divisor.m), 1)])
        cyc.require_balanced(power)
        return power
    cyc.require_balanced(divisor)
    power = divisor
    for _ in range(n - 1):
        power = stable_intersect(power, divisor)
    return power


def hyperplane_oracle(coeffs) -> TropicalCycle:
    """The tropical hyperplane of ``coeffs`` cut out cell by cell: for each
    pair of terms, the cell where they are equal and no other term is
    smaller, from the differences of the homogenized term rows (c_l, e_l),
    e_0 = 0.  The construction that ``tropical_hyperplane`` replaced by a
    translate of the standard fan; every cell is a facet."""
    m = len(coeffs) - 1
    terms = [(Fraction(c),) + tuple(int(t == l) for t in range(1, m + 1))
             for l, c in enumerate(coeffs)]
    facets = []
    for i, j in combinations(range(m + 1), 2):
        cell = Polyhedron.from_hrep(
            m, eqs=[vsub(terms[i], terms[j])],
            ineqs=[vsub(terms[l], terms[i]) for l in range(m + 1) if l not in (i, j)])
        assert cell.dim == m - 1
        facets.append(WeightedFacet(cell, 1))
    return TropicalCycle(BlockStructure((m,)), facets)


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


def concrete_direction(cones, order, signs) -> IntVec:
    """An integer vector on the side of every cone row's hyperplane that the
    symbolic direction ``u_{order[i]} = signs[i] * eps^i`` is on; each cone
    is a list of integer rows, as ``ops._displacement_cone`` returns it.

    It is ``N^(m-1) * u(1/N)`` with ``N = 2 + max |row entry|``: for a
    nonzero row a, ``a . u(eps)`` has the sign of a's first nonzero entry
    in ``order`` for all ``0 < eps < 1/(1 + max|a_j|)``, and ``1/N`` is such
    an eps.
    """
    n = 2 + max((abs(x) for rows in cones for r in rows for x in r), default=0)
    m = len(order)
    v = [0] * m
    for i, (j, s) in enumerate(zip(order, signs)):
        v[j] = s * n ** (m - 1 - i)
    return tuple(v)


def in_row_cone(rows, v) -> bool:
    """Whether ``v`` lies in the cone ``{v : a.v >= 0 for each row a}``."""
    return all(vdot(r, v) >= 0 for r in rows)


def displacement_cone_oracle(p: Polyhedron, q: Polyhedron, x) -> Polyhedron:
    """``T_x(P) - T_x(Q)`` for the point row ``x`` of ``P ∩ Q``, as the hull
    of its generators: the directions from ``x`` to ``P``'s vertices and
    from ``Q``'s vertices to ``x``, ``P``'s rays, ``Q``'s negated rays and
    both linealities.  It is ``cone(P - Q)`` whichever ``x`` is taken; the
    rows of ``ops._displacement_cone`` must cut out the same cone.
    """
    rays = ([_towards(x, r) for r in p.vertex_rows] + list(p.rays)
            + [_towards(r, x) for r in q.vertex_rows] + [vneg(r) for r in q.rays])
    return Polyhedron.from_generators(p.m, [(0,) * p.m], rays,
                                      p.lineality + q.lineality)


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


def ridge_merge_oracle(cycle: TropicalCycle) -> list:
    """``codim1_faces`` by building the face of every facet row of every
    support facet with ``face_oracle`` and merging faces with equal keys,
    records in key order; a face that is empty or not of codimension 1
    raises InvariantError.

    The merge that ``cycles._ridges`` replaced with keys of tight
    generators; kept as a differential oracle.
    """
    merged: dict = {}
    for idx, wf in enumerate(cycle.support_facets):
        p = wf.poly
        for row in p.ineqs:
            q = face_oracle(p, row)
            if q.is_empty or q.dim != p.dim - 1:
                raise InvariantError("inequality is not facet-defining")
            merged.setdefault(q.key, (q, []))[1].append((idx, cyc._lattice_normal(p, row)))
    return [cyc.Codim1Record(face=q, incident=tuple(sorted(inc)))
            for q, inc in (merged[k] for k in sorted(merged))]


def balance_violations_oracle(cycle: TropicalCycle) -> list:
    """The ``ridge_merge_oracle`` records whose weighted normal sum is not
    zero on the normal of every equality row of the built face."""
    support = cycle.support_facets
    out = []
    for record in ridge_merge_oracle(cycle):
        total = (0,) * cycle.m
        for idx, v in record.incident:
            total = tuple(a + support[idx].weight * b for a, b in zip(total, v))
        if any(vdot(eq[1:], total) for eq in record.face.eqs):
            out.append(record)
    return out


def sign_test_split(rows, gens):
    """``polyhedra._split`` with each row's tight set recomputed by integer
    sign tests over ``gens``; the incidence read that the masks of the
    double description replaced, kept as a differential oracle."""
    full = (1 << len(gens)) - 1
    masks = [sum(1 << j for j, g in enumerate(gens) if vdot(r, g) == 0) for r in rows]
    rest = {t for t in masks if t != full}
    maximal = {t for t in rest if not any(t & u == t and t != u for u in rest)}
    return ([r for r, t in zip(rows, masks) if t == full],
            [r for r, t in zip(rows, masks) if t in maximal])


def sign_test_hrep(ineqs, eqs, gens):
    """``polyhedra._hrep`` on ``sign_test_split``."""
    implicit, maximal = sign_test_split(ineqs, gens)
    facets = [r for r in maximal if any(g[0] > 0 and vdot(r, g) == 0 for g in gens)]
    return facets, list(eqs) + implicit


def sign_test_cut(p: Polyhedron, eqs, ineqs) -> Polyhedron:
    """``p._cut_canonical(eqs, ineqs)`` with the H-rep read by sign tests."""
    gen_rays, gen_lin, _ = p._cut(eqs, ineqs)
    verts = [r for r in gen_rays if r[0] > 0]
    if not verts:
        return Polyhedron.empty(p.m)
    facets, all_eqs = sign_test_hrep(p.ineqs + tuple(ineqs), p.eqs + tuple(eqs), gen_rays)
    return _canonical(p.m, facets, all_eqs, verts, [r[1:] for r in gen_rays if r[0] == 0],
                      [l[1:] for l in gen_lin])


def sign_test_hull(m, vert_rows, rays, lineality, start=None) -> Polyhedron:
    """``Polyhedron._from_generator_rows`` with both incidences read by
    sign tests; zero generators are kept, as sign tests take them."""
    gens = [*vert_rows, *((0,) + tuple(r) for r in rays)]
    constraints = [((0,) + tuple(l), True) for l in lineality]
    if start is None:
        constraints += [(g, False) for g in gens]
    else:
        lineality = (*start.lineality, *lineality)
        start = start._dual_start()
    dual_rays, dual_lin, _ = dual_description(m + 1, constraints, start=start)
    facets, eqs = sign_test_hrep(dual_rays, dual_lin, gens)
    flat, extreme = sign_test_split(gens, dual_rays)
    return _canonical(m, facets, eqs, [g for g in extreme if g[0] > 0],
                      [g[1:] for g in extreme if g[0] == 0],
                      [*lineality, *(g[1:] for g in flat)])


def sign_test_face(p: Polyhedron, row) -> Polyhedron:
    """``Polyhedron.face`` with the H-rep read by sign tests."""
    verts = tuple(g for g in p.vertex_rows if vdot(row, g) == 0)
    if not verts:
        return Polyhedron.empty(p.m)
    rays = tuple(r for r in p.rays if vdot(row[1:], r) == 0)
    facets, eqs = sign_test_hrep(p.ineqs, p.eqs + (tuple(row),),
                                 verts + tuple((0,) + r for r in rays))
    return _canonical(p.m, facets, eqs, verts, rays, p.lineality)


def sign_test_recession_cone(p: Polyhedron) -> Polyhedron:
    """``Polyhedron.recession_cone`` with the H-rep read by sign tests."""
    origin = (1,) + (0,) * p.m
    facets, eqs = sign_test_hrep([(0,) + r[1:] for r in p.ineqs],
                                 [(0,) + r[1:] for r in p.eqs],
                                 (origin,) + tuple((0,) + r for r in p.rays))
    return _canonical(p.m, facets, eqs, [origin], p.rays, p.lineality)


def box_rows(lo, hi):
    """The box [lo_1, hi_1] x ... in R^m as rows ``x_i - lo_i >= 0``,
    ``hi_i - x_i >= 0``."""
    m = len(lo)
    unit = lambda i, s: tuple(s * int(j == i) for j in range(m))
    return [(-a,) + unit(i, 1) for i, a in enumerate(lo)] + \
        [(b,) + unit(i, -1) for i, b in enumerate(hi)]


def off_faces_oracle(a: Polyhedron, b: Polyhedron) -> bool:
    """Whether ``a & b`` is nonempty and not a face of both, by the
    canonical ``intersect`` and the keys of the whole face lattice of each.

    The rule that the tight-mask test of ``polyhedra.meets_off_faces``
    replaced; kept as a differential oracle.
    """
    inter = a.intersect(b)
    return not inter.is_empty and any(
        inter.key not in frozenset(f.key for f in p.all_faces()) for p in (a, b))


def two_scan_disjoint(a: Polyhedron, b: Polyhedron) -> bool:
    """``polyhedra.quickly_disjoint`` with two scans per equality row, one
    for the row and one for its negation.

    The rule that the one-scan ``quickly_disjoint`` replaced; kept as a
    differential oracle.
    """
    def separates(row, p):
        return (all(vdot(row, g) < 0 for g in p.vertex_rows)
                and all(vdot(row[1:], r) <= 0 for r in p.rays)
                and all(vdot(row[1:], l) == 0 for l in p.lineality))

    for p, q in ((a, b), (b, a)):
        for row in p.ineqs:
            if separates(row, q):
                return True
        for row in p.eqs:
            if separates(row, q) or separates(vneg(row), q):
                return True
    return False


def _homogenized(m, ineqs, eqs):
    """The oracles' double description input for {x in R^m : ineqs >= 0,
    eqs == 0}, run from scratch: the equalities, then ``x0 >= 0``, then
    the inequalities."""
    x0 = (1,) + (0,) * m
    return [(r, True) for r in eqs] + [(x0, False)] + [(r, False) for r in ineqs]


def two_pass_from_hrep(m: int, ineqs=(), eqs=()) -> Polyhedron:
    """``Polyhedron.from_hrep`` by two conversions: H->V from scratch,
    then V->H again for a canonical H-rep.

    The construction that ``from_hrep`` replaced with a cut of the full
    space and incidence sign tests; kept as a differential oracle that
    shares no start state with the cut.  The result is not interned.
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
    gen_rays, gen_lin, _ = dual_description(
        m + 1, _homogenized(m, ineq_rows, eq_rows))
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
    gen_rays, gen_lin, _ = dual_description(
        m + 1, _homogenized(m, ineqs, eqs))
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
    dual_rays, dual_lin, _ = dual_description(m + 1, constraints)
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


def refine_by_hyperplanes(cell: Polyhedron, rows) -> list[Polyhedron]:
    """Subdivide a cell by hyperplanes, keeping pieces of the cell's
    dimension.  Retired from ``tropdeg.polyhedra``, where
    ``common_refinement`` splits its cells itself."""
    cutting = [row for row in rows if all(cell.evaluate_signs(row))]
    pieces = [cell]
    for row in cutting:
        pieces = [q for p in pieces for q in p.split(row)]
    return pieces


def containing_cells(pieces, cells) -> list[tuple[Polyhedron, tuple[int, ...]]]:
    """Each piece paired with the indices of the cells that contain its
    ``interior_row()``.  For the pieces of ``common_refinement(cells)``
    these are the cells that contain the piece, as the pieces form a
    complex and every cell is a union of pieces.  ``polyhedra.refine_cells``
    matched pieces to cells by this rule before ``common_refinement``
    returned the cells each piece was cut from; kept as a differential
    oracle."""
    cells = list(cells)
    out = []
    for piece in pieces:
        row = piece.interior_row()
        out.append((piece, tuple(i for i, c in enumerate(cells) if c.contains_row(row))))
    return out


def covered_oracle(target: Polyhedron, cover) -> bool:
    """Whether target lies in the union of the cover: refine the target by
    every equality and facet hyperplane of the cover, then test the
    interior point of each piece.  ``polyhedra.is_covered`` used this rule
    before it covered by subtraction; kept as a differential oracle."""
    cover = list(cover)
    if any(p.m != target.m for p in cover):
        raise DimensionMismatchError("cover member in a different ambient space")
    if target.is_empty:
        return True
    pool = dict.fromkeys(sign_normalized(r) for p in cover for r in p.eqs + p.ineqs)
    return all(any(p.contains_row(piece.interior_row()) for p in cover)
               for piece in refine_by_hyperplanes(target, pool))


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
    """Image of p under x -> matrix @ x, applied to the ``Fraction``
    vertices rather than the vertex rows; a differential oracle."""
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


def splitting_sums():
    """(name, cycle, span generators) of Minkowski sums whose refinement
    splits cells: every coordinate subspace and every line spanned by
    ``e_i - e_j``, on generator seeds 8 and 19 and three shipped fixtures.

    Of generator seeds 0-29, only the coordinate sums of seeds 8, 19 and
    27 split cells (seeds 0-4 have one support facet each), and seed 27
    holds the known push-forward defect.
    """
    cycles = [(f"seed {s}", fixtures.generate_admissible(s)) for s in (8, 19)]
    cycles += [(name, cycfile.load(fixture_path(name)))
               for name in ("example33b", "standard_plane", "coordinate_hyperplanes_3")]
    for name, cycle in cycles:
        m = cycle.m
        spans = [gens for _, gens in coordinate_subspaces(m)]
        spans += [[tuple(int(k == i) - int(k == j) for k in range(m))]
                  for i, j in combinations(range(m), 2)]
        for gens in spans:
            yield name, cycle, gens


def random_generators(rng, m):
    """(vertices, rays, lineality) of a small random polyhedron in R^m:
    one to three rational vertices, up to two nonzero rays and up to two
    nonzero lineality vectors, dependent ones allowed."""
    verts = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m))
             for _ in range(rng.randint(1, 3))]
    rays = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(0, 2))]
    lin = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(rng.randint(0, 2))]
    return verts, [r for r in rays if any(r)], [l for l in lin if any(l)]


def fraction_direction_pool(cycle):
    """``ops._direction_pool`` with the vertex differences taken between
    the ``Fraction`` points; kept as a differential oracle."""
    pool: set = set()
    for f in cycle.support_facets:
        p = f.poly
        pool.update(p.rays)
        pool.update(p.lineality)
        for a, b in combinations(p.vertices, 2):
            diff = vsub(b, a)
            if not is_zero_vec(diff):
                pool.add(primitive(diff))
    base = sorted(pool)
    for a, b in combinations(base, 2):
        for vec in (tuple(x + y for x, y in zip(a, b)),
                    tuple(x - y for x, y in zip(a, b))):
            if not is_zero_vec(vec):
                pool.add(primitive(vec))
    return sorted(pool)


def seeded_points(seed: int, count: int, m: int, num_bound: int = 40,
                  den_bound: int = 7):
    rng = Rng(seed)
    return [rng.vector(m, num_bound=num_bound, den_bound=den_bound)
            for _ in range(count)]


#: the block structures that ``tropical_linear_space`` draws from
LINEAR_SPACE_BLOCKS = ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (3, 1),
                       (2, 1, 1), (1, 2, 1), (2, 2, 1))


def tropical_linear_space(seed: int) -> TropicalCycle:
    """A seeded tropical linear space of codimension c in R^m: the stable
    intersection of c tropical hyperplanes with random coefficients,
    reblocked over a random block structure of R^m."""
    rng = Rng(seed)
    blocks = BlockStructure(
        LINEAR_SPACE_BLOCKS[rng.randint(0, len(LINEAR_SPACE_BLOCKS) - 1)])
    m = blocks.m
    out = None
    for _ in range(rng.randint(1, m - 1)):
        h = tropical_hyperplane([rng.fraction(num_bound=9, den_bound=4)
                                 for _ in range(m + 1)])
        out = h if out is None else stable_intersect(out, h, seed=seed)
    return TropicalCycle(blocks, out.facets)


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
