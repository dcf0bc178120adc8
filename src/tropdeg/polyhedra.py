"""Exact rational polyhedra with canonical dual descriptions.

A polyhedron in R^m is stored in both representations at once:

* H-rep: homogenized integer rows ``(c0, c1, ..., cm)`` meaning
  ``c0 + c . x >= 0`` (inequalities) or ``== 0`` (equalities).  Equalities
  are kept in RREF-canonical form; inequality normals are reduced modulo
  the equality space, scaled primitive, and sorted, so the H-rep of a
  point set is unique and drives equality/hashing.
* V-rep: sorted vertex rows, primitive rays, and an RREF-canonical
  lineality basis.  A vertex v (a point of a minimal face, reduced modulo
  the lineality) is the primitive integer row ``(d, d*v)`` with ``d > 0``
  that double description produces; ``vertices`` gives the ``Fraction``
  points.

Points are rows: a point x is handled as an integer row ``(d, d*x)`` with
``d > 0``, so the sign of ``vdot(row, point_row)`` is that of ``c0 + c.x``
and containment is a set of integer sign tests.  ``interior_row`` is the
sum of the vertex rows and the rays, a strictly positive combination of
every generator and hence a point of the relative interior.  The
``Fraction`` entry points (``contains``, ``relint_contains``,
``relative_interior_point``) clear or restore one denominator around them.

Each constructor runs the double description method once, on the
homogenization cone and in integer arithmetic; the other side is made
irredundant by integer sign tests between the rows and the generators
of that one conversion (``_split``).  A face runs none: its generators
are the polyhedron's own generators tight on it, and its H-rep is read
off them the same way.  Every nonempty constructor ends in ``_canonical``,
the one canonicalizer of rows and generators, which interns the result:
a point set has one key however it was built.  Constructors hand it raw
rows and generators, as the double description accepts redundant ones
(Fukuda-Prodon 1996).  The key is read off the canonical rows alone, so
the pool is consulted before the generators are canonicalized, and a
point set built before costs no generator work.
The empty polyhedron is a first-class value.

Polyhedra are immutable; the per-instance caches and the intern pool are
memoization only, so concurrent re-computation is benign.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul

from . import linalg
from .errors import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    InvariantError,
)
from .linalg import (
    IntVec,
    Vec,
    _divide_gcd,
    frac_vec,
    int_kernel,
    int_row,
    is_zero_vec,
    reduce_mod,
    rref,
    sign_normalized,
    vdot,
    vneg,
    vscale,
)

HomRow = IntVec  # length m+1: (c0, c1, ..., cm)


def eval_dir(row, direction):
    """c . d for a direction vector."""
    if len(row) != len(direction) + 1:
        raise ValueError(f"eval_dir of a row of length {len(row)} "
                         f"on a direction of length {len(direction)}")
    return sum(map(mul, row[1:], direction))


# ---------------------------------------------------------------------------
# double description on a homogeneous cone
# ---------------------------------------------------------------------------

def dual_description(dim: int, constraints) -> tuple[list[IntVec], list[IntVec]]:
    """Extreme rays and lineality basis of {x in R^dim : c.x >= 0 / == 0}.

    ``constraints`` is a sequence of (integer row, is_equality) pairs.  The
    incremental double description with the combinatorial adjacency test;
    all arithmetic on integers.
    """
    lin: list[IntVec] = [tuple(r) for r in linalg.identity_rows(dim)]
    rays: list[list] = []   # [vector, tight-bitmask over processed constraints]
    n_done = 0
    prior_mask = 0

    for row, is_eq in constraints:
        c = tuple(row)
        if is_zero_vec(c):
            continue
        bit = 1 << n_done
        pivot = next((l for l in lin if vdot(c, l) != 0), None)
        if pivot is not None:
            lin.remove(pivot)
            s0 = vdot(c, pivot)
            if s0 < 0:
                pivot = vneg(pivot)
                s0 = -s0
            new_lin = []
            for l in lin:
                s = vdot(c, l)
                if s != 0:
                    l = _divide_gcd([s0 * a - s * b for a, b in zip(l, pivot)])
                new_lin.append(l)
            lin = new_lin
            new_rays = []
            for vec, mask in rays:
                s = vdot(c, vec)
                if s != 0:
                    vec = tuple(s0 * a - s * b for a, b in zip(vec, pivot))
                    if is_zero_vec(vec):
                        continue
                    vec = _divide_gcd(vec)
                new_rays.append([vec, mask | bit])
            rays = _dedupe(new_rays)
            if not is_eq:
                rays.append([pivot, prior_mask])
        else:
            pos, zero, neg = [], [], []
            for vec, mask in rays:
                s = vdot(c, vec)
                if s > 0:
                    pos.append([vec, mask, s])
                elif s < 0:
                    neg.append([vec, mask, s])
                else:
                    zero.append([vec, mask | bit])
            combos = []
            for vp, mp, sp in pos:
                for vn, mn, sn in neg:
                    t = mp & mn
                    if not _adjacent(t, rays, vp, vn):
                        continue
                    w = tuple(sp * a - sn * b for a, b in zip(vn, vp))
                    if is_zero_vec(w):
                        continue
                    combos.append([_divide_gcd(w), t | bit])
            keep = zero if is_eq else [[v, m] for v, m, _ in pos] + zero
            rays = _dedupe(keep + combos)
        n_done += 1
        prior_mask |= bit
    return [r[0] for r in rays], lin


def homogenized_constraints(m, ineqs, eqs):
    """Double description input for {x in R^m : ineqs >= 0, eqs == 0}:
    the equalities, then ``x0 >= 0``, then the inequalities."""
    x0 = (1,) + (0,) * m
    return [(r, True) for r in eqs] + [(x0, False)] + \
           [(r, False) for r in ineqs]


def _dedupe(rays):
    seen = set()
    out = []
    for item in rays:
        if item[0] not in seen:
            seen.add(item[0])
            out.append(item)
    return out


def _adjacent(t, rays, vp, vn) -> bool:
    for vec, mask, *_ in rays:
        if vec is vp or vec is vn:
            continue
        if t & mask == t:
            return False
    return True


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    __slots__ = ("m", "eqs", "ineqs", "vertex_rows", "rays", "lineality",
                 "is_empty", "_cache")

    #: canonical instances by H-rep key, so face/lattice caches are shared
    _interned: dict = {}

    def __init__(self, *, m, eqs, ineqs, vertex_rows, rays, lineality, is_empty):
        self.m = m
        self.eqs = eqs
        self.ineqs = ineqs
        self.vertex_rows = vertex_rows
        self.rays = rays
        self.lineality = lineality
        self.is_empty = is_empty
        self._cache: dict = {}

    def _intern(self) -> "Polyhedron":
        return Polyhedron._interned.setdefault(self.key, self)

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls, m: int) -> "Polyhedron":
        return cls(m=m, eqs=(), ineqs=(), vertex_rows=(), rays=(), lineality=(),
                   is_empty=True)._intern()

    @classmethod
    def from_hrep(cls, m: int, ineqs=(), eqs=()) -> "Polyhedron":
        """Polyhedron {x : c0 + c.x >= 0 for ineqs, == 0 for eqs}."""
        ineqs = [_check_len(int_row(r), m + 1, "constraint row") for r in ineqs]
        eqs = [_check_len(int_row(r), m + 1, "constraint row") for r in eqs]
        gen_rays, gen_lin = dual_description(
            m + 1, homogenized_constraints(m, ineqs, eqs))
        if any(r[0] < 0 for r in gen_rays) or any(l[0] != 0 for l in gen_lin):
            raise InvariantError("homogenization generator with negative height")
        verts = [r for r in gen_rays if r[0] > 0]
        if not verts:
            return cls.empty(m)
        facets, eqs = _hrep(ineqs, eqs, gen_rays)
        return _canonical(m, facets, eqs, verts, [r[1:] for r in gen_rays if r[0] == 0],
                          [l[1:] for l in gen_lin])

    @classmethod
    def from_generators(cls, m: int, vertices=(), rays=(), lineality=()) -> "Polyhedron":
        """Polyhedron conv(vertices) + cone(rays) + span(lineality).

        At least one vertex is required for a nonempty result.
        """
        rows = [_point_row(v, m, "vertex") for v in vertices]
        ray_vecs = [int_row(_check_len(r, m, "ray")) for r in rays]
        lin_vecs = [int_row(_check_len(l, m, "lineality vector")) for l in lineality]
        return cls._from_generator_rows(m, rows, ray_vecs, lin_vecs)

    @classmethod
    def _from_generator_rows(cls, m, vert_rows, rays, lineality) -> "Polyhedron":
        """``from_generators`` on integer vertex rows ``(d, d*v)``, ``d > 0``,
        and integer ray and lineality tuples, canonical or not.

        One V->H conversion gives the facets of the homogenization cone;
        they meet in its lineality, so a generator tight on all of them is
        a lineality vector (never a vertex row, of height d > 0).  Zero,
        duplicate and parallel generators, and vertex rows that differ by
        a lineality vector, pass ``_split`` alike and meet in
        ``_canonical``.
        """
        if not vert_rows:
            return cls.empty(m)
        gens = [*vert_rows, *((0,) + r for r in rays)]
        dual_rays, dual_lin = dual_description(
            m + 1, [((0,) + l, True) for l in lineality] + [(g, False) for g in gens])
        facets, eqs = _hrep(dual_rays, dual_lin, gens)
        flat, extreme = _split(gens, dual_rays)
        return _canonical(m, facets, eqs, [g for g in extreme if g[0] > 0],
                          [g[1:] for g in extreme if g[0] == 0],
                          [*lineality, *(g[1:] for g in flat)])

    @classmethod
    def point(cls, coords) -> "Polyhedron":
        coords = frac_vec(coords)
        return cls.from_generators(len(coords), vertices=[coords])

    @classmethod
    def full_space(cls, m: int) -> "Polyhedron":
        return _canonical(m, (), (), [(1,) + (0,) * m], (), linalg.identity_rows(m))

    # -- canonical identity --------------------------------------------------

    @property
    def key(self):
        if self.is_empty:
            return (self.m, "empty")
        return (self.m, self.eqs, self.ineqs)

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron.empty({self.m})"
        return (f"Polyhedron(m={self.m}, dim={self.dim}, "
                f"#eq={len(self.eqs)}, #ineq={len(self.ineqs)}, "
                f"#V={len(self.vertex_rows)}, #R={len(self.rays)}, "
                f"#L={len(self.lineality)})")

    # -- basic geometry -------------------------------------------------------

    @property
    def dim(self) -> int:
        if self.is_empty:
            return -1
        return self.m - len(self.eqs)

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertex rows divided by their heights, as sorted points."""
        return tuple(sorted(_row_point(r) for r in self.vertex_rows))

    def _sign_test(self, row: HomRow, strict: bool) -> bool:
        return (not self.is_empty
                and all(vdot(r, row) == 0 for r in self.eqs)
                and all(vdot(r, row) > 0 if strict else vdot(r, row) >= 0
                        for r in self.ineqs))

    def contains_row(self, row: HomRow) -> bool:
        """Whether the point with integer row ``(d, d*x)``, ``d > 0``, lies
        in the polyhedron."""
        return self._sign_test(row, strict=False)

    def relint_contains_row(self, row: HomRow) -> bool:
        """The same for the relative interior."""
        return self._sign_test(row, strict=True)

    def contains(self, point) -> bool:
        return self.contains_row(_point_row(point, self.m))

    def relint_contains(self, point) -> bool:
        return self.relint_contains_row(_point_row(point, self.m))

    def direction_basis(self) -> tuple[IntVec, ...]:
        """Saturated lattice basis of Lin(P) (== Lin(P) spanning rows)."""
        if "dirs" not in self._cache:
            if self.is_empty:
                self._cache["dirs"] = ()
            else:
                homog = [r[1:] for r in self.eqs]
                self._cache["dirs"] = int_kernel(homog, self.m)
        return self._cache["dirs"]

    def interior_row(self) -> HomRow:
        """A relative interior point as an integer row ``(d, d*x)``, ``d > 0``:
        the sum of the vertex rows and the rays, which is strictly positive
        on every inequality that is not tight on the whole polyhedron."""
        if self.is_empty:
            raise EmptyPolyhedronError("relative interior of the empty set")
        gens = self.vertex_rows + tuple((0,) + r for r in self.rays)
        return int_row([sum(col) for col in zip(*gens)])

    def relative_interior_point(self) -> Vec:
        return _row_point(self.interior_row())

    # -- derived polyhedra ----------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Intersection from the joint H-rep; empty without a double
        description when ``quickly_disjoint`` separates the pair."""
        if self.m != other.m:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.m} vs {other.m}")
        if self.is_empty or other.is_empty or quickly_disjoint(self, other):
            return Polyhedron.empty(self.m)
        return Polyhedron.from_hrep(self.m,
                                    ineqs=self.ineqs + other.ineqs,
                                    eqs=self.eqs + other.eqs)

    def recession_cone(self) -> "Polyhedron":
        if self.is_empty:
            raise EmptyPolyhedronError("recession cone of the empty set")
        if "recession" not in self._cache:
            ineqs = [(0,) + r[1:] for r in self.ineqs]
            eqs = [(0,) + r[1:] for r in self.eqs]
            self._cache["recession"] = Polyhedron.from_hrep(self.m, ineqs, eqs)
        return self._cache["recession"]

    def translate(self, v) -> "Polyhedron":
        if self.is_empty:
            return self
        v = tuple(v)
        if len(v) != self.m:
            raise DimensionMismatchError(
                f"translation vector of length {len(v)} in R^{self.m}")
        d, *dv = _point_row(v, self.m)     # (d, d*v), d > 0
        # c0 + c.(x - v) >= 0 scaled by d
        shift = lambda rows: [(d * r[0] - vdot(r[1:], dv),) + tuple(d * c for c in r[1:])
                              for r in rows]
        # the row (d*e, d*e*(x + v)) of x + v for a vertex row (e, e*x)
        verts = [(d * r[0],) + tuple(d * a + r[0] * b for a, b in zip(r[1:], dv))
                 for r in self.vertex_rows]
        return _canonical(self.m, shift(self.ineqs), shift(self.eqs), verts,
                          self.rays, self.lineality)

    def plus_span(self, basis) -> "Polyhedron":
        """Minkowski sum with the linear span of the given vectors: the
        same generators with the vectors added to the lineality."""
        if self.is_empty:
            return self
        lin = [int_row(_check_len(tuple(b), self.m, "span vector")) for b in basis]
        return Polyhedron._from_generator_rows(self.m, self.vertex_rows, self.rays,
                                               self.lineality + tuple(lin))

    def product(self, other: "Polyhedron") -> "Polyhedron":
        """Cartesian product, coordinates of ``other`` appended after self's."""
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.m + other.m)
        a, b = self.m, other.m
        rows = lambda mine, theirs: ([r + (0,) * b for r in mine] +
                                     [r[:1] + (0,) * a + r[1:] for r in theirs])
        vecs = lambda mine, theirs: ([r + (0,) * b for r in mine] +
                                     [(0,) * a + r for r in theirs])
        verts = [vscale(r2[0], r1) + vscale(r1[0], r2[1:])
                 for r1 in self.vertex_rows for r2 in other.vertex_rows]
        return _canonical(a + b, rows(self.ineqs, other.ineqs), rows(self.eqs, other.eqs),
                          verts, vecs(self.rays, other.rays),
                          vecs(self.lineality, other.lineality))

    def linear_image(self, matrix, m_out: int) -> "Polyhedron":
        """Image under x -> matrix @ x (matrix given as m_out rows of length m).

        The matrix is applied through each row's nonzero entries; the
        coordinate projections it serves here have one per row.  A rational
        matrix is allowed: the images are taken to their ``int_row``.
        """
        if len(matrix) != m_out or any(len(row) != self.m for row in matrix):
            raise DimensionMismatchError(
                f"matrix is not {m_out} rows of length {self.m}")
        if self.is_empty:
            return Polyhedron.empty(m_out)
        sparse = [[(j, c) for j, c in enumerate(row) if c] for row in matrix]
        apply = lambda x: [sum(c * x[j] for j, c in row) for row in sparse]
        verts = [int_row([r[0]] + apply(r[1:])) for r in self.vertex_rows]
        rays = [r2 for r2 in (int_row(apply(r)) for r in self.rays) if not is_zero_vec(r2)]
        lin = [l2 for l2 in (int_row(apply(l)) for l in self.lineality)
               if not is_zero_vec(l2)]
        return Polyhedron._from_generator_rows(m_out, verts, rays, lin)

    def face(self, ineq_row: HomRow) -> "Polyhedron":
        """The face where a valid inequality (one of ``ineqs``) is tight,
        with no double description: the vertex rows and rays on the
        hyperplane, the lineality, and ``_hrep`` of the rows with
        ``ineq_row`` among the equalities."""
        verts = tuple(g for g in self.vertex_rows if vdot(ineq_row, g) == 0)
        if not verts:
            return Polyhedron.empty(self.m)
        rays = tuple(r for r in self.rays if eval_dir(ineq_row, r) == 0)
        facets, eqs = _hrep(self.ineqs, self.eqs + (tuple(ineq_row),),
                            verts + tuple((0,) + r for r in rays))
        return _canonical(self.m, facets, eqs, verts, rays, self.lineality)

    def facet_faces(self) -> tuple["Polyhedron", ...]:
        """Codimension-1 faces (one per irredundant inequality)."""
        if "facets" not in self._cache:
            faces = []
            for row in self.ineqs:
                f = self.face(row)
                if f.is_empty or f.dim != self.dim - 1:
                    raise InvariantError("inequality is not facet-defining")
                faces.append(f)
            self._cache["facets"] = tuple(faces)
        return self._cache["facets"]

    def all_faces(self) -> tuple["Polyhedron", ...]:
        """All nonempty faces, including the polyhedron itself."""
        if "faces" not in self._cache:
            seen = {self.key: self}
            frontier = [self]
            while frontier:
                nxt = []
                for f in frontier:
                    for g in f.facet_faces():
                        if g.key not in seen:
                            seen[g.key] = g
                            nxt.append(g)
                frontier = nxt
            self._cache["faces"] = tuple(sorted(seen.values(), key=lambda p: p.key))
        return self._cache["faces"]

    # -- splitting ------------------------------------------------------------

    def evaluate_signs(self, row: HomRow):
        """(has_positive, has_negative) of c0 + c.x over the polyhedron."""
        has_pos = has_neg = False
        for g in self.vertex_rows:
            s = vdot(row, g)
            has_pos |= s > 0
            has_neg |= s < 0
        for r in self.rays:
            s = eval_dir(row, r)
            has_pos |= s > 0
            has_neg |= s < 0
        for l in self.lineality:
            if eval_dir(row, l) != 0:
                has_pos = has_neg = True
        return has_pos, has_neg

    def split(self, row: HomRow) -> list["Polyhedron"]:
        """Pieces of the same dimension on both sides of the hyperplane row."""
        has_pos, has_neg = self.evaluate_signs(row)
        if not (has_pos and has_neg):
            return [self]
        out = []
        for signed in (row, tuple(-x for x in row)):
            piece = Polyhedron.from_hrep(self.m, ineqs=self.ineqs + (signed,),
                                         eqs=self.eqs)
            if not piece.is_empty and piece.dim == self.dim:
                out.append(piece)
        return out


# ---------------------------------------------------------------------------
# canonicalization helpers
# ---------------------------------------------------------------------------

def _check_len(vec, n, what="vector"):
    """The vector, after checking that it has length n."""
    if len(vec) != n:
        raise DimensionMismatchError(f"{what} of length {len(vec)}, expected {n}")
    return vec


def _point_row(point, m, what="point") -> HomRow:
    """The integer row ``(d, d*x)``, ``d > 0``, of a rational point of R^m."""
    return int_row((1, *_check_len(tuple(point), m, what)))


def _row_point(row: HomRow) -> Vec:
    """The point of an integer row ``(d, d*x)``, ``d > 0``."""
    return tuple(Fraction(x, row[0]) for x in row[1:])


def _canon_eqs(rows) -> tuple[HomRow, ...]:
    """RREF-canonical basis of a row space (equalities or lineality); on
    rows that already are ``rref`` output, ``rref`` eliminates nothing."""
    return tuple(rref(rows)[0])


def _canon_ineqs(rows, eqs) -> tuple[HomRow, ...]:
    out = set()
    for row in rows:
        r = reduce_mod(eqs, row)
        if is_zero_vec(r[1:]):
            continue   # trivial after reduction
        out.add(r)
    return tuple(sorted(out))


def _split(rows, gens):
    """(rows tight on every generator, the other rows whose tight sets are
    maximal among the other rows'; the first rows' set is everything and
    would hide every facet).  For rows nonnegative on the cone of ``gens``
    these are the implicit equalities and the facet rows, as faces of a
    cone are ordered like their tight sets (Fukuda-Prodon 1996); with rows
    and generators swapped, the lineality and the extreme generators."""
    full = (1 << len(gens)) - 1
    masks = [sum(1 << j for j, g in enumerate(gens) if vdot(r, g) == 0)
             for r in rows]
    rest = {t for t in masks if t != full}
    maximal = {t for t in rest if not any(t & u == t and t != u for u in rest)}
    return ([r for r, t in zip(rows, masks) if t == full],
            [r for r, t in zip(rows, masks) if t in maximal])


def _hrep(ineqs, eqs, gens) -> tuple[list[HomRow], list[HomRow]]:
    """(facet rows, equality rows) of a nonempty polyhedron from its rows and
    the generators of its homogenization (vertex rows, rays ``(0, r)``): the
    ``_split`` facets tight on a vertex row, as one tight on rays only
    bounds the face at infinity, and the given and implicit equalities;
    ``_canonical`` canonicalizes both."""
    implicit, maximal = _split(ineqs, gens)
    facets = [r for r in maximal if any(g[0] > 0 and vdot(r, g) == 0 for g in gens)]
    return facets, list(eqs) + implicit


def _canon_generators(vert_rows, rays, lineality):
    lin = _canon_eqs(lineality)
    rays_c = sorted({r for r in (reduce_mod(lin, x) for x in rays)
                     if not is_zero_vec(r)})
    lin_rows = [(0,) + l for l in lin]
    verts_c = sorted({reduce_mod(lin_rows, r) for r in vert_rows})
    return tuple(verts_c), tuple(rays_c), lin


def _canonical(m, facets, eqs, vert_rows, rays, lineality) -> Polyhedron:
    """The interned instance of the nonempty polyhedron with these facet
    rows, equality rows, extreme vertex rows ``(d, d*v)``, ``d > 0``, rays
    and spanning lineality vectors; rows and generators need not be
    canonical, and every nonempty constructor ends here.  The rows alone
    make the key, so the pool is consulted before the generators are
    canonicalized, and a hit returns the pooled instance."""
    eqs = _canon_eqs(eqs)
    ineqs = _canon_ineqs(facets, eqs)
    pooled = Polyhedron._interned.get((m, eqs, ineqs))
    if pooled is not None:
        return pooled
    vert_rows, rays, lineality = _canon_generators(vert_rows, rays, lineality)
    return Polyhedron(m=m, eqs=eqs, ineqs=ineqs, vertex_rows=vert_rows, rays=rays,
                      lineality=lineality, is_empty=False)._intern()


# ---------------------------------------------------------------------------
# covering and refinement
# ---------------------------------------------------------------------------

def hyperplane_pool(polys) -> list[HomRow]:
    """Deduplicated constraint hyperplanes (equalities and facet rows)."""
    seen = set()
    out = []
    for p in polys:
        for row in p.eqs + p.ineqs:
            h = sign_normalized(row)
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def refine_by_hyperplanes(cell: Polyhedron, rows) -> list[Polyhedron]:
    """Subdivide a cell by hyperplanes, keeping pieces of the cell's dimension."""
    cutting = []
    for row in rows:
        has_pos, has_neg = cell.evaluate_signs(row)
        if has_pos and has_neg:
            cutting.append(row)
    pieces = [cell]
    for row in cutting:
        nxt = []
        for p in pieces:
            nxt.extend(p.split(row))
        pieces = nxt
    return pieces


def face_key_set(poly: Polyhedron) -> frozenset:
    if "face_keys" not in poly._cache:
        poly._cache["face_keys"] = frozenset(f.key for f in poly.all_faces())
    return poly._cache["face_keys"]


def _separates(row: HomRow, p: Polyhedron) -> bool:
    """Whether ``row`` is negative on the whole of p."""
    return (all(vdot(row, g) < 0 for g in p.vertex_rows)
            and all(eval_dir(row, r) <= 0 for r in p.rays)
            and all(eval_dir(row, l) == 0 for l in p.lineality))


def quickly_disjoint(a: Polyhedron, b: Polyhedron) -> bool:
    """Cheap sufficient test for nonempty a and b being disjoint; the
    prefilter of ``Polyhedron.intersect``.

    Looks for a constraint of one polyhedron that is strictly violated on
    the other, by integer dot products with the other's stored vertex
    rows, rays and lineality.  True means the intersection is empty;
    False decides nothing.
    """
    for p, q in ((a, b), (b, a)):
        for row in p.ineqs:
            if _separates(row, q):
                return True
        for row in p.eqs:
            if _separates(row, q) or _separates(vneg(row), q):
                return True
    return False


def offending_pairs(polys) -> list[tuple[int, int]]:
    """Index pairs ``i < j``, in loop order, of cells that are equal or
    whose intersection is nonempty and not a face of both: the face
    condition of a complex, in which each cell is listed once."""
    bad = []
    for (i, a), (j, b) in combinations(enumerate(polys), 2):
        if a.key == b.key:
            bad.append((i, j))
            continue
        inter = a.intersect(b)
        if not inter.is_empty and (inter.key not in face_key_set(a)
                                   or inter.key not in face_key_set(b)):
            bad.append((i, j))
    return bad


def common_refinement(cells) -> list[Polyhedron]:
    """Refine same-dimension cells until every pairwise intersection is a
    common face, that is until ``offending_pairs`` of the pieces is empty.

    In transverse position the input already is a complex and no cell is
    touched; otherwise only cells in offending pairs are split, round
    after round until no cuts remain.  Each cell carries the input rows
    (equalities and facet rows of the given cells) that cut it out, and an
    offending pair is cut only by each other's carried rows, so every piece
    is a cell of the arrangement of the input rows.  If neither cut split
    the pair, both cells would be sign cells of the union of their rows and
    their intersection a common face; so every round splits a cell, and
    the finite arrangement bounds the rounds.
    """
    out: dict = {}
    rows: dict = {}
    for cell in cells:
        out.setdefault(cell.key, cell)
        rows.setdefault(cell.key, set()).update(cell.eqs + cell.ineqs)
    current = sorted(out.values(), key=lambda p: p.key)
    while True:
        bad = offending_pairs(current)
        if not bad:
            return current
        cuts: dict = {}
        for ia, ib in bad:
            cuts.setdefault(ia, set()).update(rows[current[ib].key])
            cuts.setdefault(ib, set()).update(rows[current[ia].key])
        out, carried = {}, {}
        for idx, cell in enumerate(current):
            cut = cuts.get(idx, set())
            for piece in refine_by_hyperplanes(cell, sorted(cut)):
                out.setdefault(piece.key, piece)
                carried.setdefault(piece.key, set()).update(rows[cell.key], cut)
        rows = carried
        current = sorted(out.values(), key=lambda p: p.key)


def refine_cells(cells) -> list[tuple[Polyhedron, tuple[int, ...]]]:
    """``common_refinement(cells)``, each piece paired with the indices of
    the cells that contain its ``interior_row()``: the pieces form a
    complex and every cell is a union of pieces, so a piece lies in a cell
    exactly when its interior point does."""
    cells = list(cells)
    out = []
    for piece in common_refinement(cells):
        row = piece.interior_row()
        out.append((piece, tuple(i for i, c in enumerate(cells) if c.contains_row(row))))
    return out


def is_covered(target: Polyhedron, cover) -> bool:
    """Exact test for target being a subset of the union of the cover."""
    cover = list(cover)
    for p in cover:
        if p.m != target.m:
            raise DimensionMismatchError("cover member in a different ambient space")
    if target.is_empty:
        return True
    for cell in refine_by_hyperplanes(target, hyperplane_pool(cover)):
        row = cell.interior_row()
        if not any(p.contains_row(row) for p in cover):
            return False
    return True
